//! # hpf — HPF distribution & alignment without templates
//!
//! Facade crate for the reproduction of Chapman, Mehrotra & Zima,
//! *"High Performance Fortran Without Templates: An Alternative Model for
//! Distribution and Alignment"* (PPoPP 1993 / ICASE Report 93-17).
//!
//! Re-exports the whole workspace:
//!
//! * [`index`] — index domains, subscript triplets, regular-section algebra
//! * [`procs`] — processor arrangements and the abstract processor space
//! * [`core`] — distributions, alignments, `CONSTRUCT`, the alignment
//!   forest, procedure boundaries, inquiry
//! * [`template`] — the HPF template-model baseline (for §8 comparisons)
//! * [`machine`] — the distributed-memory machine simulator
//! * [`runtime`] — distributed arrays, owner-computes execution, and the
//!   static schedule verifier
//! * [`frontend`] — the `!HPF$` directive sub-language
//!
//! ```
//! use hpf::prelude::*;
//!
//! let mut ds = DataSpace::new(4);
//! let b = ds.declare("B", IndexDomain::of_shape(&[16]).unwrap()).unwrap();
//! let a = ds.declare("A", IndexDomain::of_shape(&[16]).unwrap()).unwrap();
//! ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
//! ds.align(a, b, &AlignSpec::identity(1)).unwrap();
//! assert_eq!(ds.owners(a, &Idx::d1(7)).unwrap(), ds.owners(b, &Idx::d1(7)).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hpf_core as core;
pub use hpf_frontend as frontend;
pub use hpf_index as index;
pub use hpf_machine as machine;
pub use hpf_procs as procs;
pub use hpf_runtime as runtime;
pub use hpf_template as template;

pub mod prelude;
