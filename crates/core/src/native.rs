//! The *native* resolution strategy (§IV).
//!
//! For binaries that cannot execute on the wrapping host (cross-platform
//! images, foreign loaders), Shrinkwrap "traverses the filesystem the way
//! that the loader would". This module is that traversal: the loader's own
//! search order, [`glibc_order`], walked with unaccounted peeks through the
//! same directory handles the loader probes (the wrap tool's traversal is
//! not process startup; its cost is measured at the wall-clock level by the
//! `hotpath` bench's `shrinkwrap_cost/*` rows), so
//! the corner cases the paper calls out come with it — wrong-architecture
//! candidates are skipped, and hwcaps subdirectories are probed first.
//!
//! The semantic difference from the `Ldd` strategy: there is no soname
//! dedup cache. Each needed name resolves once, by the first object that
//! requests it, over that object's *first-requester chain* (the object
//! that first requested it, that object's first requester, and so on up
//! to the executable), so an RPATH propagates exactly as it does in the
//! loader. A dependency that only works because something else loaded it
//! earlier under a different name is reported missing here rather than
//! silently inherited.

use std::collections::{HashSet, VecDeque};

use depchaos_elf::{io, ElfObject};
use depchaos_loader::glibc::glibc_order;
use depchaos_loader::{Environment, LdCache, Prober};
use depchaos_vfs::Vfs;

/// A per-request resolution outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeResolution {
    pub requester: String,
    pub name: String,
    /// Resolved absolute path, or `None`.
    pub path: Option<String>,
}

/// Resolve the full closure of `exe_path` natively, breadth-first.
/// Returns resolutions in BFS request order (first occurrence only).
pub fn resolve_closure(
    fs: &Vfs,
    exe_path: &str,
    env: &Environment,
    cache: &LdCache,
) -> Result<Vec<NativeResolution>, String> {
    let exe = io::peek_object(fs, exe_path).map_err(|e| e.to_string())?;
    // The System V rule Shrinkwrap must replicate: silently ignore
    // wrong-architecture candidates (ubiquitous on multi-ABI systems). The
    // peeking prober skips them as the loader does, and resolves each
    // search directory once for the whole closure.
    let probe = Prober::peeking(fs, env, exe.machine);
    // Every object reached, with its path and the index of its first
    // requester (the executable has none).
    let mut loaded: Vec<(ElfObject, String, Option<usize>)> = Vec::new();
    let mut queue: VecDeque<(usize, String)> = exe.needed.iter().map(|n| (0, n.clone())).collect();
    loaded.push((exe, exe_path.to_string(), None));
    let mut seen: HashSet<String> = HashSet::new();
    let mut out = Vec::new();
    while let Some((req, name)) = queue.pop_front() {
        if !seen.insert(name.clone()) {
            continue;
        }
        let chain = std::iter::successors(Some(req), |&idx| loaded[idx].2)
            .map(|idx| (&loaded[idx].0, loaded[idx].1.as_str()));
        let found = glibc_order(chain, &name, cache, &probe);
        let requester = loaded[req].1.clone();
        let path = found.map(|(cand, _)| {
            if !loaded.iter().any(|(_, p, _)| *p == cand.path) {
                queue.extend(cand.object.needed.iter().map(|n| (loaded.len(), n.clone())));
                loaded.push((cand.object, cand.path.clone(), Some(req)));
            }
            cand.path
        });
        out.push(NativeResolution { requester, name, path });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use depchaos_elf::io::install;
    use depchaos_elf::Machine;

    #[test]
    fn resolves_simple_closure() {
        let fs = Vfs::local();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("liba.so").runpath("/l").build())
            .unwrap();
        install(
            &fs,
            "/l/liba.so",
            &ElfObject::dso("liba.so").needs("libb.so").runpath("/l").build(),
        )
        .unwrap();
        install(&fs, "/l/libb.so", &ElfObject::dso("libb.so").build()).unwrap();
        let rs = resolve_closure(&fs, "/bin/app", &Environment::bare(), &LdCache::empty()).unwrap();
        let paths: Vec<_> = rs.iter().filter_map(|r| r.path.as_deref()).collect();
        assert_eq!(paths, vec!["/l/liba.so", "/l/libb.so"]);
    }

    #[test]
    fn skips_wrong_arch() {
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app").needs("libm.so").runpath("/x").runpath("/y").build(),
        )
        .unwrap();
        install(&fs, "/x/libm.so", &ElfObject::dso("libm.so").machine(Machine::Aarch64).build())
            .unwrap();
        install(&fs, "/y/libm.so", &ElfObject::dso("libm.so").build()).unwrap();
        let rs = resolve_closure(&fs, "/bin/app", &Environment::bare(), &LdCache::empty()).unwrap();
        assert_eq!(rs[0].path.as_deref(), Some("/y/libm.so"));
    }

    #[test]
    fn stricter_than_ldd_about_hidden_deps() {
        // A dep reachable only because a sibling loads it first: the ldd
        // strategy inherits it via dedup; native reports it missing for the
        // object that cannot find it... unless the first resolution already
        // covered the same soname (BFS first-occurrence rule). Requesting
        // under a *different* soname shows the strictness.
        let fs = Vfs::local();
        install(
            &fs,
            "/bin/app",
            &ElfObject::exe("app").needs("libok.so").needs("libnopath.so").runpath("/l").build(),
        )
        .unwrap();
        install(&fs, "/l/libok.so", &ElfObject::dso("libok.so").build()).unwrap();
        install(
            &fs,
            "/l/libnopath.so",
            &ElfObject::dso("libnopath.so").needs("libhidden.so").build(),
        )
        .unwrap();
        install(&fs, "/hidden/libhidden.so", &ElfObject::dso("libhidden.so").build()).unwrap();
        let rs = resolve_closure(&fs, "/bin/app", &Environment::bare(), &LdCache::empty()).unwrap();
        let hidden = rs.iter().find(|r| r.name == "libhidden.so").unwrap();
        assert!(hidden.path.is_none(), "native strategy surfaces the gap");
    }

    #[test]
    fn hwcaps_respected() {
        let fs = Vfs::local();
        install(&fs, "/bin/app", &ElfObject::exe("app").needs("libv.so").runpath("/l").build())
            .unwrap();
        install(&fs, "/l/glibc-hwcaps/x86-64-v3/libv.so", &ElfObject::dso("libv.so").build())
            .unwrap();
        install(&fs, "/l/libv.so", &ElfObject::dso("libv.so").build()).unwrap();
        let env = Environment::bare().with_hwcaps(["glibc-hwcaps/x86-64-v3"]);
        let rs = resolve_closure(&fs, "/bin/app", &env, &LdCache::empty()).unwrap();
        assert_eq!(rs[0].path.as_deref(), Some("/l/glibc-hwcaps/x86-64-v3/libv.so"));
    }
}
