//! Probing shared by every resolver: the loader backends, libtree's
//! [`crate::analyze_tree`] and Shrinkwrap's native strategy.
//!
//! [`probe_dir_with`] is the per-directory rule (hwcaps subdirectories
//! first, then the plain directory) over any `open`. [`probe_exact`] is
//! the accounted `open`, which opens and maps a candidate through the VFS
//! cost model, and [`probe_dir`] is the rule over it.

use depchaos_elf::{ElfObject, Machine};
use depchaos_vfs::{path as vpath, Vfs};

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

/// Probe `dir` for `name`, glibc-style: hwcaps subdirectories first, then
/// the plain directory. Every probe is an accounted `openat`; a hit is
/// followed by an accounted read to inspect the ELF header. Candidates whose
/// machine differs from `want_arch` are **silently skipped** per the System V
/// ABI ("libraries that do not match the architecture of the loading binary
/// should be silently ignored").
pub fn probe_dir(
    fs: &Vfs,
    dir: &str,
    name: &str,
    want_arch: Machine,
    hwcaps: &[String],
) -> Option<Candidate> {
    probe_dir_with(dir, name, hwcaps, |full| probe_exact(fs, full, want_arch))
}

/// [`probe_dir`]'s order over any `open`: try `dir/<hwcap>/name` for each
/// hwcaps subdirectory in priority order, then `dir/name`, and return the
/// first candidate `open` accepts.
pub fn probe_dir_with(
    dir: &str,
    name: &str,
    hwcaps: &[String],
    open: impl Fn(&str) -> Option<Candidate>,
) -> Option<Candidate> {
    for sub in hwcaps.iter().map(String::as_str).chain(std::iter::once("")) {
        let full = if sub.is_empty() {
            vpath::join(dir, name)
        } else {
            vpath::join(&vpath::join(dir, sub), name)
        };
        if let Some(c) = open(&full) {
            return Some(c);
        }
    }
    None
}

/// Probe one exact path (a `/`-containing needed entry, or a cache hit).
/// Returns `None` on ENOENT, unparseable content, or architecture mismatch.
pub fn probe_exact(fs: &Vfs, full: &str, want_arch: Machine) -> Option<Candidate> {
    fs.try_open(full)?;
    let bytes = fs.read_file(full).ok()?;
    let object = ElfObject::parse(&bytes).ok()?;
    if object.machine != want_arch {
        // Wrong ABI: skipped without any diagnostic, exactly like ld.so.
        return None;
    }
    if object.virtual_size > 0 {
        // Mapping the object faults in its declared size, not the size of
        // our compact serialisation.
        fs.charge_read(full, object.virtual_size);
    }
    Some(Candidate { path: full.to_string(), object })
}

/// Expand `$ORIGIN` in a search-path entry against the directory containing
/// the object that owns the entry.
pub fn expand_entry(entry: &str, owner_path: &str) -> String {
    vpath::expand_origin(entry, &vpath::parent(owner_path))
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

    #[test]
    fn plain_probe_finds() {
        let fs = world();
        let c = probe_dir(&fs, "/usr/lib", "liba.so", Machine::X86_64, &[]).unwrap();
        assert_eq!(c.path, "/usr/lib/liba.so");
    }

    #[test]
    fn missing_costs_one_openat() {
        let fs = world();
        let before = fs.snapshot();
        assert!(probe_dir(&fs, "/usr/lib", "libnope.so", Machine::X86_64, &[]).is_none());
        let d = fs.snapshot().since(&before);
        assert_eq!(d.openat, 1);
        assert_eq!(d.misses, 1);
    }

    #[test]
    fn wrong_arch_silently_skipped() {
        let fs = world();
        assert!(probe_dir(&fs, "/usr/lib", "lib32.so", Machine::X86_64, &[]).is_none());
        // but visible to a 32-bit requester
        assert!(probe_dir(&fs, "/usr/lib", "lib32.so", Machine::X86, &[]).is_some());
    }

    #[test]
    fn hwcaps_take_priority() {
        let fs = world();
        let caps = vec!["glibc-hwcaps/x86-64-v3".to_string()];
        let c = probe_dir(&fs, "/usr/lib", "libfast.so", Machine::X86_64, &caps).unwrap();
        assert_eq!(c.path, "/usr/lib/glibc-hwcaps/x86-64-v3/libfast.so");
        // without hwcaps, the plain file wins
        let c2 = probe_dir(&fs, "/usr/lib", "libfast.so", Machine::X86_64, &[]).unwrap();
        assert_eq!(c2.path, "/usr/lib/libfast.so");
    }

    #[test]
    fn garbage_file_skipped() {
        let fs = world();
        fs.write_file_p("/usr/lib/libjunk.so", b"ASCII text".to_vec()).unwrap();
        assert!(probe_dir(&fs, "/usr/lib", "libjunk.so", Machine::X86_64, &[]).is_none());
    }

    #[test]
    fn origin_expansion_against_owner() {
        assert_eq!(expand_entry("$ORIGIN/../lib", "/opt/app/bin/tool"), "/opt/app/lib");
    }
}
