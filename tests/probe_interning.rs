//! The interner holds search directories and names, not joined paths.
//!
//! A plain Pynamic-900 capture is the Fig 6 storm: 404,550 RUNPATH misses,
//! library k probed in the k−1 directories ahead of its own. Keyed by the
//! joined path text, every miss interned one path for the life of the
//! process. Keyed by (directory, name), a miss interns nothing: the
//! capture adds its directories, its names and its hits' texts.
//!
//! The interner is process-wide, so this test lives in a binary of its own:
//! no other test interns while it counts.

use depchaos_launch::profile_load_checked;
use depchaos_loader::GlibcLoader;
use depchaos_vfs::{intern::interned, StorageModel, Vfs};
use depchaos_workloads::{Pynamic, Workload};

#[test]
fn a_pynamic900_capture_interns_directories_and_names_not_paths() {
    let fs = Vfs::new(StorageModel::Nfs.backend());
    let pynamic = Pynamic::paper();
    let exe = pynamic.install(&fs).unwrap().exe_path;
    let loader = GlibcLoader::new(&fs).with_env(pynamic.environment());
    let before = interned();
    let (log, load) = profile_load_checked(&fs, &exe, &loader).unwrap();
    let added = interned() - before;
    assert!(load.success());
    assert_eq!(log.misses(), 900 * 899 / 2);
    assert!(added < 10_000, "the capture interned {added} texts");
}
