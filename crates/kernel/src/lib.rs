//! The Tock-like kernel substrate: processes, syscalls, grants, capsules,
//! scheduling, and the §6.1 differential-testing rig.
//!
//! Everything the paper's evaluation drives lives here, in **both** kernel
//! flavours behind one interface: [`process::Flavor::Legacy`] is Tock's
//! monolithic kernel (selectable bug variants), [`process::Flavor::Granular`]
//! is TickTock. The Fig. 11 methods are on [`process::Process`]; the 21
//! release tests are in [`apps`]; [`differential`] reproduces §6.1.

pub mod apps;
pub mod campaign;
pub mod capsules;
pub mod corpus;
pub mod differential;
pub mod explore;
pub mod grant;
pub mod kernel;
mod ladder;
pub mod loader;
pub mod machine;
pub mod obligations;
mod oracle;
pub mod pool;
pub mod process;
pub mod recovery;
pub mod shrink;
pub mod snapshot;
pub mod trace;

pub use kernel::{App, ErrorCode, Kernel, Step};
pub use loader::{flash_app, flash_many, AppImage, LoadError};
pub use machine::Machine;
pub use process::{Flavor, Process, ProcessError, ProcessState};
