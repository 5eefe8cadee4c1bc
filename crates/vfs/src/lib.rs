//! # depchaos-vfs — simulated filesystem substrate
//!
//! An in-memory, thread-safe, POSIX-flavoured filesystem used by the rest of
//! the `depchaos` workspace as the world that binaries, packages, and loaders
//! live in. It exists because the paper's evaluation metrics — `stat`/`openat`
//! counts during process startup (Table II) and metadata-bound launch times on
//! NFS (Fig 6) — are functions of the *filesystem access pattern* of the
//! dynamic loader, not of real disk contents.
//!
//! Three concerns are layered:
//!
//! 1. [`tree`] — the actual namespace: directories, regular files (byte blobs),
//!    symlinks, inodes, component-wise symlink resolution.
//! 2. [`counters`] + [`strace`] — every accounted operation on [`Vfs`]
//!    counts itself and (optionally) appends to an strace-style log, so a
//!    test can assert "loading this binary performed 1823 stat/openat calls".
//!    The counts, the log, the simulated clock and the cost model's caches
//!    form one accounting record behind one lock: an accounted syscall
//!    takes that lock once. The log and the caches key every op on a
//!    [`PathKey`], the path split at its last `/` into an interned
//!    (directory, name) pair; the path text is rendered only when asked.
//! 3. [`latency`] — a pluggable cost model mapping each syscall to simulated
//!    nanoseconds: local filesystem (warm/cold dentry cache) or NFS (round
//!    trips, client attribute cache, optional negative caching — LLNL systems
//!    disable it, which is why Fig 6 is so dramatic).
//!
//! A loader's search-path probe is one name in one directory, as in rCore's
//! one-layer `INode::find`: [`Vfs::dir`] resolves a directory once into a
//! [`DirHandle`], and [`Vfs::probe`] looks a [`Name`] up in its entries,
//! charging exactly what an open of the joined path charges under the same
//! key, without building that path. So the [interner](mod@intern) holds
//! directory texts and names, not every joined miss path.
//!
//! The simulated clock is monotone and deterministic: the same op sequence
//! always yields the same total time.
//!
//! ```
//! use depchaos_vfs::{Vfs, Backend};
//!
//! let fs = Vfs::new(Backend::local());
//! fs.mkdir_p("/usr/lib").unwrap();
//! fs.write_file("/usr/lib/libm.so.6", b"elf!".to_vec()).unwrap();
//! fs.symlink("/usr/lib/libm.so", "libm.so.6").unwrap();
//! assert_eq!(*fs.read_file("/usr/lib/libm.so").unwrap(), b"elf!".to_vec());
//! assert!(fs.snapshot().total() > 0);
//!
//! // A probe charges what opening the joined path charges.
//! let lib = fs.dir("/usr/lib");
//! assert!(fs.probe(&lib, depchaos_vfs::Name::new("libm.so.6")).is_some());
//! assert!(fs.probe(&lib, depchaos_vfs::Name::new("libz.so")).is_none());
//! assert_eq!(fs.snapshot().misses, 1);
//! ```

pub mod counters;
pub mod error;
pub mod intern;
pub mod latency;
pub mod path;
pub mod strace;
pub mod tree;

mod fs;

pub use counters::CounterSnapshot;
pub use error::{VfsError, VfsResult};
pub use fs::{DirHandle, Vfs};
pub use intern::{intern, Name, PathId, PathKey};
pub use latency::{AttrCache, Backend, CostModel, LocalParams, NfsParams, StorageModel};
pub use strace::{Op, Outcome, StraceLog, Syscall};
pub use tree::{FileKind, Inode, Metadata};
