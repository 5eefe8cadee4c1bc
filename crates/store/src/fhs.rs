//! The traditional FHS model (§II-A).
//!
//! Everything lands in a handful of well-known directories; the loader finds
//! libraries through its default search path (or the ld.so cache). The model
//! is simple and familiar, but:
//!
//! * only one version of a soname can exist — a second install **silently
//!   overwrites** the first ([`FhsInstaller::install`] reports the
//!   casualties, a real `cp` would not);
//! * installation is file-at-a-time, so interrupting it leaves the system
//!   inconsistent ([`FhsInstaller::install_partial`] models exactly that for
//!   upgrade-failure experiments);
//! * removal can break arbitrary dependents because nothing records who
//!   needs what at the file level.

use std::collections::HashMap;

use depchaos_elf::{io, ElfObject};
use depchaos_vfs::{path as vpath, Vfs, VfsError};

use crate::package::PackageDef;

/// Installs packages into the shared FHS directories.
#[derive(Debug)]
pub struct FhsInstaller {
    pub lib_dir: String,
    pub bin_dir: String,
    /// file path → owning package, for conflict reporting.
    owners: HashMap<String, String>,
}

impl Default for FhsInstaller {
    fn default() -> Self {
        FhsInstaller {
            lib_dir: "/usr/lib".to_string(),
            bin_dir: "/usr/bin".to_string(),
            owners: HashMap::new(),
        }
    }
}

impl FhsInstaller {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install every file of `pkg`. Returns the paths that belonged to
    /// *other* packages and were overwritten — the silent-conflict hazard.
    pub fn install(&mut self, fs: &Vfs, pkg: &PackageDef) -> Result<Vec<String>, VfsError> {
        let mut overwritten = Vec::new();
        for lib in &pkg.libs {
            let path = vpath::join(&self.lib_dir, &lib.soname);
            if let Some(owner) = self.owners.get(&path) {
                if owner != &pkg.name {
                    overwritten.push(path.clone());
                }
            }
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
            // FHS objects carry no RPATH/RUNPATH: default paths do the work.
            io::install(fs, &path, &b.build())?;
            self.owners.insert(path, pkg.name.clone());
        }
        for bin in &pkg.bins {
            let path = vpath::join(&self.bin_dir, &bin.name);
            if let Some(owner) = self.owners.get(&path) {
                if owner != &pkg.name {
                    overwritten.push(path.clone());
                }
            }
            let mut b = ElfObject::exe(&bin.name);
            for n in &bin.needed {
                b = b.needs(n);
            }
            for d in &bin.dlopens {
                b = b.dlopens(d);
            }
            io::install(fs, &path, &b.build())?;
            self.owners.insert(path, pkg.name.clone());
        }
        Ok(overwritten)
    }

    /// Install only the first `n_files` files, then "crash" — the
    /// inconsistent intermediate state §II-A warns about.
    pub fn install_partial(
        &mut self,
        fs: &Vfs,
        pkg: &PackageDef,
        n_files: usize,
    ) -> Result<usize, VfsError> {
        let mut written = 0usize;
        for lib in &pkg.libs {
            if written >= n_files {
                return Ok(written);
            }
            let path = vpath::join(&self.lib_dir, &lib.soname);
            let mut b = ElfObject::dso(&lib.soname);
            for n in &lib.needed {
                b = b.needs(n);
            }
            io::install(fs, &path, &b.build())?;
            self.owners.insert(path, pkg.name.clone());
            written += 1;
        }
        for bin in &pkg.bins {
            if written >= n_files {
                return Ok(written);
            }
            let path = vpath::join(&self.bin_dir, &bin.name);
            let mut b = ElfObject::exe(&bin.name);
            for n in &bin.needed {
                b = b.needs(n);
            }
            io::install(fs, &path, &b.build())?;
            self.owners.insert(path, pkg.name.clone());
            written += 1;
        }
        Ok(written)
    }

    /// Remove every file owned by `pkg_name`. Nothing checks dependents.
    pub fn remove(&mut self, fs: &Vfs, pkg_name: &str) -> Result<usize, VfsError> {
        let mine: Vec<String> = self
            .owners
            .iter()
            .filter(|(_, owner)| owner.as_str() == pkg_name)
            .map(|(path, _)| path.clone())
            .collect();
        for path in &mine {
            fs.remove(path)?;
            self.owners.remove(path);
        }
        Ok(mine.len())
    }

    /// Who owns a path, if tracked.
    pub fn owner_of(&self, path: &str) -> Option<&str> {
        self.owners.get(path).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{BinDef, LibDef};
    use depchaos_loader::GlibcLoader;

    #[test]
    fn installed_app_loads_via_default_paths() {
        let fs = Vfs::local();
        let mut fhs = FhsInstaller::new();
        fhs.install(&fs, &PackageDef::new("zlib", "1").lib(LibDef::new("libz.so.1"))).unwrap();
        fhs.install(&fs, &PackageDef::new("tool", "1").bin(BinDef::new("tool").needs("libz.so.1")))
            .unwrap();
        let r = GlibcLoader::new(&fs).load("/usr/bin/tool").unwrap();
        assert!(r.success());
        assert_eq!(r.objects[1].path, "/usr/lib/libz.so.1");
    }

    #[test]
    fn second_version_silently_overwrites() {
        let fs = Vfs::local();
        let mut fhs = FhsInstaller::new();
        fhs.install(&fs, &PackageDef::new("ssl-1.0", "1.0").lib(LibDef::new("libssl.so"))).unwrap();
        let overwritten = fhs
            .install(&fs, &PackageDef::new("ssl-3.0", "3.0").lib(LibDef::new("libssl.so")))
            .unwrap();
        assert_eq!(overwritten, vec!["/usr/lib/libssl.so"]);
        assert_eq!(fhs.owner_of("/usr/lib/libssl.so"), Some("ssl-3.0"));
    }

    #[test]
    fn interrupted_install_leaves_partial_state() {
        let fs = Vfs::local();
        let mut fhs = FhsInstaller::new();
        let pkg = PackageDef::new("glibc", "2.34")
            .lib(LibDef::new("libc.so.6"))
            .lib(LibDef::new("libm.so.6"))
            .lib(LibDef::new("libpthread.so.0"));
        let written = fhs.install_partial(&fs, &pkg, 2).unwrap();
        assert_eq!(written, 2);
        assert!(fs.exists("/usr/lib/libc.so.6"));
        assert!(fs.exists("/usr/lib/libm.so.6"));
        assert!(!fs.exists("/usr/lib/libpthread.so.0"), "the crash left this missing");
    }

    #[test]
    fn removal_breaks_dependents() {
        let fs = Vfs::local();
        let mut fhs = FhsInstaller::new();
        fhs.install(&fs, &PackageDef::new("zlib", "1").lib(LibDef::new("libz.so.1"))).unwrap();
        fhs.install(&fs, &PackageDef::new("tool", "1").bin(BinDef::new("tool").needs("libz.so.1")))
            .unwrap();
        assert_eq!(fhs.remove(&fs, "zlib").unwrap(), 1);
        let r = GlibcLoader::new(&fs).load("/usr/bin/tool").unwrap();
        assert!(!r.success(), "nothing protected the dependent");
    }
}
